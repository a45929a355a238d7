"""The squatting classifier: candidate domain → squatting type.

Classification order matters because the categories overlap: many
adjacent-key substitutions are simultaneously single bit flips (f/g,
r/s differ in one bit).  The precedence is homo → dot → combo → typo →
bit: the deliberate-lookalike and structural categories first, then
typo before bit so that the (large) typo population doesn't leak into
the (tiny) bit category — misattributing 5% of typos would several-fold
inflate bitsquatting, whereas the reverse leak is negligible.  A
disjoint census like Figure 7 needs exactly one category per domain.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.dns.name import DomainName
from repro.squatting.bit import _flip_variants, _one_bit_apart
from repro.squatting.combo import COMBO_KEYWORDS, _is_combo_label
from repro.squatting.homo import _substitutions
from repro.squatting.targets import PopularDomains
from repro.squatting.typo import _variant_labels

#: A variant index: (tld, sld) → position of the first target it matches.
_Index = Dict[Tuple[str, str], int]


class SquattingType(enum.Enum):
    """The five categories of Figure 7, in classification precedence."""

    HOMO = "homosquatting"
    BIT = "bitsquatting"
    DOT = "dotsquatting"
    COMBO = "combosquatting"
    TYPO = "typosquatting"


@dataclass(frozen=True)
class SquattingMatch:
    """A positive classification: which type, against which target."""

    candidate: DomainName
    squat_type: SquattingType
    target: DomainName


class SquattingDetector:
    """Classifies domains against a popular-target list.

    >>> detector = SquattingDetector(PopularDomains.default())
    >>> detector.classify(DomainName("gogle.com")).squat_type
    <SquattingType.TYPO: 'typosquatting'>
    """

    def __init__(self, targets: Optional[PopularDomains] = None) -> None:
        self.targets = targets if targets is not None else PopularDomains.default()
        # Variant index: every type but combo is a finite variant set of
        # the target's registered (tld, sld), so one dict lookup per type
        # replaces the scan over targets.  Each key maps to the first
        # target in list order that produces it, which keeps the
        # first-target tie-break of a pairwise scan.  Combo has no finite
        # variant set (any extra token counts, under any TLD), so it
        # stays a scan over the brand labels.
        self._targets = list(self.targets)
        registered = [t.registered_domain() for t in self._targets]
        self._brands = [r.sld for r in registered]
        self._homo: _Index = {}
        self._typo: _Index = {}
        self._bit: _Index = {}
        self._fused: _Index = {}  # dotsquat shape 1: www<brand>
        self._joined: _Index = {}  # dotsquat shape 2: split brand
        for position, target in enumerate(registered):
            tld, sld = target.tld, target.sld
            for index, labels in (
                (self._homo, _substitutions(sld)),
                (self._typo, _variant_labels(sld)),
                (
                    self._bit,
                    # The one-bit relation of is_bitsquat: drops flips
                    # that only match after case folding ("_" → "W").
                    {v for v in _flip_variants(sld) if _one_bit_apart(v, sld)},
                ),
                (self._fused, {f"www{sld}"}),
                (self._joined, {sld}),
            ):
                for label in labels:
                    index.setdefault((tld, label), position)

    def classify(self, candidate: DomainName) -> Optional[SquattingMatch]:
        """The first matching (type, target), or None for clean names."""
        if candidate in self.targets:
            return None  # the brand itself is not a squat
        # A name's tld and sld are those of its registered domain.
        tld, sld = candidate.tld, candidate.sld
        position = self._homo.get((tld, sld))
        if position is not None:
            return self._match(candidate, SquattingType.HOMO, position)
        # Dotsquat shape 2 needs at least two labels left of the TLD.
        prefix = candidate.labels[:-1]
        hits = [
            hit
            for hit in (
                self._fused.get((tld, sld)),
                self._joined.get((tld, "".join(prefix))) if len(prefix) >= 2 else None,
            )
            if hit is not None
        ]
        if hits:
            return self._match(candidate, SquattingType.DOT, min(hits))
        for position, brand in enumerate(self._brands):
            if _is_combo_label(sld, brand, COMBO_KEYWORDS):
                return self._match(candidate, SquattingType.COMBO, position)
        for squat_type, index in (
            (SquattingType.TYPO, self._typo),
            (SquattingType.BIT, self._bit),
        ):
            position = index.get((tld, sld))
            if position is not None:
                return self._match(candidate, squat_type, position)
        return None

    def _match(
        self, candidate: DomainName, squat_type: SquattingType, position: int
    ) -> SquattingMatch:
        return SquattingMatch(candidate, squat_type, self._targets[position])

    def classify_many(
        self, candidates: Iterable[DomainName]
    ) -> List[SquattingMatch]:
        """All positive matches in a candidate stream."""
        matches = []
        for candidate in candidates:
            match = self.classify(candidate)
            if match is not None:
                matches.append(match)
        return matches

    def census(
        self, candidates: Iterable[DomainName]
    ) -> Dict[SquattingType, int]:
        """Counts per type over a candidate stream (Figure 7's shape)."""
        counts: Dict[SquattingType, int] = {t: 0 for t in SquattingType}
        for match in self.classify_many(candidates):
            counts[match.squat_type] += 1
        return counts

    def is_squatting(self, candidate: DomainName) -> bool:
        return self.classify(candidate) is not None


def census_table(counts: Dict[SquattingType, int]) -> List[Tuple[str, int]]:
    """Figure-7-ordered (name, count) rows, largest first."""
    return sorted(
        ((t.value, c) for t, c in counts.items()),
        key=lambda row: row[1],
        reverse=True,
    )

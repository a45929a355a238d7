"""Tests for the unified squatting detector."""

import random

import pytest

from repro.dns.name import DomainName
from repro.squatting import (
    bitsquat_variants,
    combosquat_variants,
    dotsquat_variants,
    homosquat_variants,
    is_bitsquat,
    is_combosquat,
    is_dotsquat,
    is_homosquat,
    is_typosquat,
    typosquat_variants,
)
from repro.squatting.detector import (
    SquattingDetector,
    SquattingType,
    census_table,
)
from repro.squatting.targets import PopularDomains
from repro.squatting.typo import tld_swap_variants


@pytest.fixture(scope="module")
def detector():
    return SquattingDetector(PopularDomains.default())


class TestTargets:
    def test_default_targets(self):
        targets = PopularDomains.default()
        assert DomainName("google.com") in targets
        assert DomainName("www.google.com") in targets  # registered-domain match
        assert DomainName("not-a-brand.com") not in targets
        assert len(targets) >= 30

    def test_label_lookup(self):
        targets = PopularDomains.default()
        assert targets.by_label("paypal") == DomainName("paypal.com")
        assert targets.has_label("google")
        assert not targets.has_label("zzzz")
        with pytest.raises(KeyError):
            targets.by_label("zzzz")


class TestClassification:
    def test_typo(self, detector):
        match = detector.classify(DomainName("gogle.com"))
        assert match.squat_type == SquattingType.TYPO
        assert match.target == DomainName("google.com")

    def test_combo(self, detector):
        match = detector.classify(DomainName("paypal-login.com"))
        assert match.squat_type == SquattingType.COMBO

    def test_dot(self, detector):
        match = detector.classify(DomainName("wwwgoogle.com"))
        assert match.squat_type == SquattingType.DOT

    def test_homo_takes_precedence(self, detector):
        # goog1e: '1' for 'l' is both a confusable and near-key; homo wins.
        match = detector.classify(DomainName("goog1e.com"))
        assert match.squat_type == SquattingType.HOMO

    def test_bit(self, detector):
        match = detector.classify(DomainName("eoogle.com"))
        assert match.squat_type == SquattingType.BIT

    def test_brand_itself_is_clean(self, detector):
        assert detector.classify(DomainName("google.com")) is None
        assert not detector.is_squatting(DomainName("google.com"))

    def test_unrelated_is_clean(self, detector):
        assert detector.classify(DomainName("weatherreport.org")) is None

    def test_twitter_suport_from_paper(self, detector):
        """The paper's registered domain twitter-sup0rt.com is a combosquat."""
        match = detector.classify(DomainName("twitter-sup0rt.com"))
        assert match is not None
        assert match.squat_type == SquattingType.COMBO
        assert match.target == DomainName("twitter.com")


class TestCensus:
    def test_census_counts(self, detector):
        candidates = [
            DomainName("gogle.com"),
            DomainName("googel.com"),
            DomainName("paypal-login.com"),
            DomainName("wwwgoogle.com"),
            DomainName("clean-site.org"),
        ]
        counts = detector.census(candidates)
        assert counts[SquattingType.TYPO] == 2
        assert counts[SquattingType.COMBO] == 1
        assert counts[SquattingType.DOT] == 1
        assert sum(counts.values()) == 4

    def test_classify_many_skips_clean(self, detector):
        matches = detector.classify_many(
            [DomainName("clean-site.org"), DomainName("gogle.com")]
        )
        assert len(matches) == 1

    def test_census_table_sorted(self):
        counts = {
            SquattingType.TYPO: 5,
            SquattingType.COMBO: 9,
            SquattingType.DOT: 1,
            SquattingType.BIT: 0,
            SquattingType.HOMO: 0,
        }
        table = census_table(counts)
        assert table[0] == ("combosquatting", 9)
        assert table[1] == ("typosquatting", 5)


def _pairwise_classify(candidate, targets):
    """Reference classifier: every (type, target) predicate in precedence."""
    if candidate.registered_domain() in targets:
        return None
    for squat_type, predicate in (
        (SquattingType.HOMO, is_homosquat),
        (SquattingType.DOT, is_dotsquat),
        (SquattingType.COMBO, is_combosquat),
        (SquattingType.TYPO, is_typosquat),
        (SquattingType.BIT, is_bitsquat),
    ):
        for target in targets:
            if predicate(candidate, target):
                return squat_type, target
    return None


def _index_candidates():
    """Generator outputs for every default target, dotsquat subdomains,
    the brands themselves and random labels.

    The pairwise reference costs ~1 ms a candidate, so each generator
    contributes a seeded sample of at most 12 outputs per target.
    """
    rng = random.Random(12)
    targets = PopularDomains.default()
    candidates = []
    for target in targets:
        candidates += [target, DomainName(f"www.{target}")]
        for variants in (
            typosquat_variants,
            combosquat_variants,
            dotsquat_variants,
            bitsquat_variants,
            homosquat_variants,
            tld_swap_variants,
        ):
            generated = variants(target)
            generated = rng.sample(generated, min(12, len(generated)))
            # Subdomains classify by their registered domain.
            candidates += generated + [v.child("login") for v in generated[:1]]
        brand = target.sld
        # Inserted-dot subdomain dotsquats: pay.pal.com, p.ay.pal.com, and
        # the same split under a TLD the brand does not use.
        for split in range(1, len(brand)):
            head, tail = brand[:split], brand[split:]
            candidates += [
                DomainName(f"{head}.{tail}.{target.tld}"),
                DomainName(f"{head}.{tail}.net"),
            ]
            if split > 1:
                candidates.append(
                    DomainName(f"{head[:1]}.{head[1:]}.{tail}.{target.tld}")
                )
    inner = "abcdefghijklmnopqrstuvwxyz0123456789-"
    for _ in range(300):
        length = rng.randint(1, 10)
        label = "".join(
            rng.choice(inner[:-1] if i in (0, length - 1) else inner)
            for i in range(length)
        )
        tld = rng.choice(["com", "net", "org", "ru", "us", "tv"])
        candidates.append(DomainName(f"{label}.{tld}"))
    candidates += [DomainName("com"), DomainName(".")]
    return candidates


class TestVariantIndex:
    def test_index_matches_pairwise_scan(self, detector):
        targets = PopularDomains.default()
        candidates = _index_candidates()
        assert DomainName("pay.pal.com") in candidates
        kinds = set()
        for candidate in candidates:
            match = detector.classify(candidate)
            got = None if match is None else (match.squat_type, match.target)
            assert got == _pairwise_classify(candidate, targets), candidate
            if match is not None:
                assert match.candidate is candidate
                kinds.add(match.squat_type)
        assert kinds == set(SquattingType)

    def test_first_target_in_list_order_wins(self):
        # "gogle" is a typo of both; the earlier target is reported.
        targets = PopularDomains(
            [DomainName("gogle1.com"), DomainName("google.com"), DomainName("goglee.com")]
        )
        match = SquattingDetector(targets).classify(DomainName("gogle.com"))
        assert match.squat_type == SquattingType.TYPO
        assert match.target == DomainName("gogle1.com")

    def test_subdomain_dotsquat(self, detector):
        match = detector.classify(DomainName("pay.pal.com"))
        assert match.squat_type == SquattingType.DOT
        assert match.target == DomainName("paypal.com")

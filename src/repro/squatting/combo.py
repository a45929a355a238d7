"""Combosquatting: brand + keyword combinations.

Kintis et al. (CCS '17) showed combosquatting (``paypal-login.com``)
outnumbers typosquatting in the wild because the keyword space is
unbounded.  Generation combines the brand with a curated keyword list
in four syntactic shapes; detection tokenizes the candidate label and
looks for an exact brand token plus at least one extra token.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.dns.name import DomainName

#: Keywords observed in combosquatting campaigns (login/security bait,
#: commerce bait, and support-scam bait).
COMBO_KEYWORDS: Tuple[str, ...] = (
    "login", "signin", "account", "verify", "secure", "security", "update",
    "support", "help", "service", "services", "online", "official", "team",
    "mail", "web", "portal", "pay", "payment", "billing", "wallet", "bonus",
    "promo", "sale", "shop", "store", "deals", "free", "gift", "prize",
    "app", "apps", "mobile", "download", "install", "plugin", "center",
    "alert", "recovery", "unlock", "confirm", "auth", "id", "sup0rt",
)


def combosquat_variants(
    target: DomainName, keywords: Optional[Tuple[str, ...]] = None
) -> List[DomainName]:
    """Brand+keyword combinations for ``target`` (same TLD).

    Four shapes per keyword: ``brand-kw``, ``kw-brand``, ``brandkw``,
    ``kwbrand``.
    """
    target = target.registered_domain()
    brand = target.sld
    pool = keywords if keywords is not None else COMBO_KEYWORDS
    variants = []
    for keyword in pool:
        for label in (
            f"{brand}-{keyword}",
            f"{keyword}-{brand}",
            f"{brand}{keyword}",
            f"{keyword}{brand}",
        ):
            variants.append(DomainName(f"{label}.{target.tld}"))
    return variants


def is_combosquat(
    candidate: DomainName,
    target: DomainName,
    keywords: Optional[Tuple[str, ...]] = None,
) -> bool:
    """True when the candidate embeds the exact brand plus more.

    The brand must appear as a clean token: at a hyphen boundary or as
    a prefix/suffix of the label, with the remainder being a known
    keyword or any non-empty hyphen-delimited token.  TLD may differ —
    combosquatters frequently move TLDs (``paypal-login.net``).
    """
    return _is_combo_label(
        candidate.registered_domain().sld,
        target.registered_domain().sld,
        keywords if keywords is not None else COMBO_KEYWORDS,
    )


def _is_combo_label(label: str, brand: str, pool: Tuple[str, ...]) -> bool:
    """:func:`is_combosquat` on bare labels (``pool``: the keywords)."""
    if label == brand:
        return False
    if brand not in label:
        return False
    tokens = [t for t in label.split("-") if t]
    if brand in tokens and len(tokens) > 1:
        return True
    if label.startswith(brand):
        remainder = label[len(brand) :].strip("-")
        return remainder in pool
    if label.endswith(brand):
        remainder = label[: -len(brand)].strip("-")
        return remainder in pool
    return False

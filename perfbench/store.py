"""The `store` workload: the write, durability and identity path.

Per repetition: feed a benchmark-made observation stream through a
spill-backed ``ResilientIngestPipeline`` that checkpoints periodically
(fast lane on, fsync on, as shipped), bulk-load more rows with
``intern_many`` + ``add_batch``, ``spill_commit`` then
``spill_compact``, reopen the directory as a new store, and compute
the monthly series, TLD histogram, lifespan decay, ``fingerprint()``
and ``digest()`` on it.  No DGA or squatting code runs.

The inputs come from this module's own seeded generator, so an edit
to a generator inside ``repro`` cannot change the workload.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench.harness import OUT, Outcome
from perfbench.tracer import NullTracer

#: Observations offered to the pipeline per repetition.
STREAM_OBSERVATIONS = 300_000
#: Registered domains the stream draws from (Zipf-skewed).
STREAM_DOMAINS = 20_000
ZIPF_EXPONENT = 1.1
#: Share of responses that are not NXDomain (filtered at admission).
NOERROR_SHARE = 0.10
#: Share of NXDomain observations delivered twice in a row.
DUPLICATE_SHARE = 0.03
#: Share of qnames carrying a subdomain label.
SUBDOMAIN_SHARE = 0.7
#: Rows bulk-loaded after the stream, in ``add_batch`` calls of this size.
BULK_ROWS = 800_000
BULK_BATCH = 100_000
#: Domains only the bulk load adds.
BULK_NEW_DOMAINS = 2_000
#: Pipeline checkpoint (manifest commit) interval, in observations.
CHECKPOINT_EVERY = 50_000

WINDOW_DAYS = 730
_TLDS = ("com", "net", "org", "xyz", "top", "info", "ru", "de", "cn", "io")
_SUBDOMAINS = ("www", "mail", "api", "cdn", "m", "static", "login", "img")
_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))

IMPORTS = ("repro.passivedns.pipeline",)


@dataclass
class StoreInputs:
    observations: list
    #: Independent accounting of what admission must let through.
    expected_landed: int
    expected_duplicates: int
    #: Rows that land, as (registered domains, domain index, time, count).
    landed_domains: list
    landed_index: np.ndarray
    landed_times: np.ndarray
    landed_counts: np.ndarray
    bulk_domains: list
    bulk_index: np.ndarray
    bulk_times: np.ndarray
    bulk_counts: np.ndarray


def _labels(rng: np.random.Generator, count: int) -> List[str]:
    lengths = rng.integers(5, 12, size=count)
    letters = _LETTERS[rng.integers(0, len(_LETTERS), size=int(lengths.sum()))]
    out, pos = [], 0
    for index, length in enumerate(lengths.tolist()):
        out.append("".join(letters[pos:pos + length]) + f"{index:05d}")
        pos += length
    return out


def make_inputs(seed: int) -> StoreInputs:
    """The seeded observation stream and bulk rows."""
    from repro.clock import SECONDS_PER_DAY, STUDY_START, date_to_epoch
    from repro.dns.message import RCode
    from repro.dns.name import DomainName
    from repro.passivedns.record import DnsObservation

    rng = np.random.default_rng([seed, 0x5703E])
    names = [f"{label}.{_TLDS[i % len(_TLDS)]}" for i, label in enumerate(_labels(rng, STREAM_DOMAINS + BULK_NEW_DOMAINS))]
    registered = [DomainName(name) for name in names]
    weights = 1.0 / np.arange(1, STREAM_DOMAINS + 1) ** ZIPF_EXPONENT
    picks = rng.choice(STREAM_DOMAINS, size=STREAM_OBSERVATIONS, p=weights / weights.sum())
    # Strictly increasing times: no two distinct observations share a
    # dedup key, so only the injected duplicates are suppressed.
    start = date_to_epoch(STUDY_START)
    step = WINDOW_DAYS * SECONDS_PER_DAY // STREAM_OBSERVATIONS
    times = start + np.cumsum(rng.integers(1, 2 * step, size=STREAM_OBSERVATIONS))
    counts = rng.integers(1, 6, size=STREAM_OBSERVATIONS)
    nx = rng.random(STREAM_OBSERVATIONS) >= NOERROR_SHARE
    duplicate = nx & (rng.random(STREAM_OBSERVATIONS) < DUPLICATE_SHARE)
    subdomain = rng.random(STREAM_OBSERVATIONS) < SUBDOMAIN_SHARE
    sub_pick = rng.integers(0, len(_SUBDOMAINS), size=STREAM_OBSERVATIONS)
    sensors = rng.integers(0, 4, size=STREAM_OBSERVATIONS)

    qnames: Dict[Tuple[int, int], DomainName] = {}
    observations = []
    for i in range(STREAM_OBSERVATIONS):
        domain = int(picks[i])
        key = (domain, int(sub_pick[i]) if subdomain[i] else -1)
        qname = qnames.get(key)
        if qname is None:
            text = names[domain] if key[1] < 0 else f"{_SUBDOMAINS[key[1]]}.{names[domain]}"
            qname = qnames[key] = DomainName(text)
        observation = DnsObservation(
            qname=qname,
            rcode=RCode.NXDOMAIN if nx[i] else RCode.NOERROR,
            timestamp=int(times[i]),
            sensor_id=f"sensor-{int(sensors[i])}",
            count=int(counts[i]),
        )
        observations.append(observation)
        if duplicate[i]:
            observations.append(observation)

    bulk_index = rng.integers(0, STREAM_DOMAINS + BULK_NEW_DOMAINS, size=BULK_ROWS)
    bulk_times = rng.integers(start, start + WINDOW_DAYS * SECONDS_PER_DAY, size=BULK_ROWS)
    bulk_counts = rng.integers(1, 6, size=BULK_ROWS)
    return StoreInputs(
        observations=observations,
        expected_landed=int(nx.sum()),
        expected_duplicates=int(duplicate.sum()),
        landed_domains=registered[:STREAM_DOMAINS],
        landed_index=picks[nx],
        landed_times=times[nx],
        landed_counts=counts[nx],
        bulk_domains=registered,
        bulk_index=bulk_index,
        bulk_times=bulk_times,
        bulk_counts=bulk_counts,
    )


def _bulk_load(db, inputs: StoreInputs) -> None:
    ids = db.intern_many(inputs.bulk_domains)
    for lo in range(0, BULK_ROWS, BULK_BATCH):
        hi = lo + BULK_BATCH
        db.add_batch(ids[inputs.bulk_index[lo:hi]], inputs.bulk_times[lo:hi], inputs.bulk_counts[lo:hi])


def _aggregates(db) -> Dict[str, object]:
    days, decay = db.lifespan_decay()
    return {
        "monthly": db.monthly_response_series(),
        "tld": db.tld_histogram(),
        "lifespan": (days.tolist(), decay.tolist()),
        "fingerprint": db.fingerprint(),
        "digest": db.digest(),
    }


def reference(inputs: StoreInputs) -> Dict[str, object]:
    """Every aggregate of an in-memory store built straight from the rows
    that must land, without the pipeline or the spill directory."""
    from repro.passivedns.database import PassiveDnsDatabase

    db = PassiveDnsDatabase()
    ids = db.intern_many(inputs.landed_domains)
    db.add_batch(ids[inputs.landed_index], inputs.landed_times, inputs.landed_counts)
    _bulk_load(db, inputs)
    result = _aggregates(db)
    result["rows"] = db.row_count()
    return result


@dataclass
class StoreRun:
    wall_s: float
    ingest_s: float
    offered: int
    bytes_per_row: float


def _dir_bytes(path: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _dirs, files in os.walk(path)
        for name in files
    )


def run_once(inputs: StoreInputs, expected: Dict[str, object], spill_dir: Path,
             tracer=None, request: Optional[str] = None,
             outcome: Optional[Outcome] = None) -> StoreRun:
    """One stream-to-reopened-store cycle in a fresh ``spill_dir``."""
    from repro.passivedns.database import PassiveDnsDatabase
    from repro.passivedns.pipeline import ResilientIngestPipeline

    tracer = tracer if tracer is not None else NullTracer()
    outcome = outcome if outcome is not None else Outcome()
    shutil.rmtree(spill_dir, ignore_errors=True)
    try:
        start = perf_counter()
        with tracer.span("store", request=request):
            pipeline = ResilientIngestPipeline(spill_dir=spill_dir, checkpoint_every=CHECKPOINT_EVERY)
            ingest_start = perf_counter()
            pipeline.ingest_many(inputs.observations)
            stats = pipeline.finish()
            ingest_s = perf_counter() - ingest_start
            db = pipeline.database
            landed = db.row_count()
            _bulk_load(db, inputs)
            db.spill_commit()
            db.spill_compact()
            with tracer.span("passivedns.reopen"):
                reopened = PassiveDnsDatabase(spill_dir=spill_dir)
            got = _aggregates(reopened)
        wall = perf_counter() - start
        tracer.count("passivedns.segments_crc_streamed", reopened.spill.last_recovery.segments_crc_streamed)

        outcome.check(
            stats.offered == len(inputs.observations)
            and stats.delivered == stats.offered
            and stats.dropped == stats.store_failures == 0
            and db.duplicates_suppressed == inputs.expected_duplicates
            and landed == inputs.expected_landed,
            f"pipeline accounting: offered {stats.offered}, delivered {stats.delivered}, "
            f"duplicates {db.duplicates_suppressed}/{inputs.expected_duplicates}, "
            f"landed {landed}/{inputs.expected_landed}",
        )
        outcome.check(reopened.row_count() == expected["rows"],
                      f"reopened rows {reopened.row_count()} != {expected['rows']}")
        for name in ("fingerprint", "digest", "monthly", "tld", "lifespan"):
            outcome.check(got[name] == expected[name], f"reopened {name} differs from the in-memory store")
        bytes_per_row = _dir_bytes(spill_dir) / max(reopened.row_count(), 1)
        return StoreRun(wall_s=wall, ingest_s=ingest_s, offered=stats.offered, bytes_per_row=bytes_per_row)
    finally:
        # Drop the stores (and their segment memory maps) before the
        # directory goes, so the next job starts from an empty one.
        pipeline = db = reopened = None
        shutil.rmtree(spill_dir, ignore_errors=True)


def scratch_dir() -> Path:
    return OUT / f"spill-{os.getpid()}"

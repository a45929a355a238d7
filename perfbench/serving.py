"""The `serving` workload: a closed loop of reads and writes on one store.

Two client threads each send their next request only after the
previous one returns.  A read goes through
``QueryServer.serve_threaded([request], threads=1)``, so a client is
blocked while the tier's worker runs and at most two threads are busy
(the host has two cores).  About one request in a hundred is instead a
write: ``add_batch`` of rows for existing domains, which bumps the
store generation and so invalidates the tier's result caches.

The store and both request scripts come from this module's own seeded
generator, so an edit to ``repro.serving.sweep`` cannot change them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, List, Optional, Tuple

import numpy as np

from perfbench.harness import Outcome
from perfbench.tracer import NullTracer

#: Store shape: domains × rows per domain over a two-year window.
DOMAINS = 20_000
ROWS_PER_DOMAIN = 48
WINDOW_DAYS = 730
#: Closed-loop clients (one per core).
CLIENTS = 2
#: Read mix: top-domains, daily-series, timeline, activity-window.
READ_MIX = (0.25, 0.30, 0.25, 0.20)
#: One write per this many reads, each ``WRITE_ROWS`` rows.
READS_PER_WRITE = 100
WRITE_ROWS = 200
#: Requests each client sends per second of ``--seconds``, sized so a
#: run lasts at most that long at the parent commit (700-1000 reads/s on a
#: 2-core host).  The count is fixed rather than the duration because
#: the tier keeps every served record, so memory grows with requests
#: served and a timed loop would make ``peak_rss_mb`` track throughput.
REQUESTS_PER_CLIENT_SECOND = 400
#: Requests per client script; a client that reaches the end of its
#: script starts it again from the top.
SCRIPT_LENGTH = 20_000
#: Requests per client in each phase of the traced run, fixed so that
#: the per-kind counts repeat between runs.
TRACED_REQUESTS = 2_500
#: Reads re-served on the quiescent final store and compared with a
#: direct ``Query.execute``.
IDENTITY_SAMPLE = 40

_TLDS = ("com", "net", "org", "xyz", "top", "info", "biz")

IMPORTS = ("repro.serving.server",)


@dataclass
class Op:
    """One scripted request: a read (``request``) or a write (``rows``)."""

    request: Any = None
    rows: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None


@dataclass
class ServingInputs:
    db: Any
    scripts: List[List[Op]]


def build_store(seed: int):
    from repro.clock import SECONDS_PER_DAY, STUDY_START, date_to_epoch
    from repro.dns.name import DomainName
    from repro.passivedns.database import PassiveDnsDatabase

    rng = np.random.default_rng([seed, 0x5E4F])
    names = [DomainName(f"nx-{index:05d}.{_TLDS[index % len(_TLDS)]}") for index in range(DOMAINS)]
    db = PassiveDnsDatabase()
    ids = db.intern_many(names)
    start = date_to_epoch(STUDY_START)
    rows = DOMAINS * ROWS_PER_DOMAIN
    times = rng.integers(start, start + WINDOW_DAYS * SECONDS_PER_DAY, size=rows)
    counts = rng.integers(1, 6, size=rows)
    db.add_batch(np.repeat(ids, ROWS_PER_DOMAIN), times, counts)
    return db


def build_script(seed: int, client: int, length: int) -> List[Op]:
    from repro.clock import SECONDS_PER_DAY, STUDY_START, date_to_epoch
    from repro.serving.admission import QueryRequest
    from repro.serving.queries import (
        ActivityWindowQuery,
        DailySeriesQuery,
        TimelineQuery,
        TopDomainsQuery,
    )

    rng = np.random.default_rng([seed, 0xC11E, client])
    start = date_to_epoch(STUDY_START)
    end = start + WINDOW_DAYS * SECONDS_PER_DAY
    cumulative = np.cumsum(READ_MIX)
    ops: List[Op] = []
    for _ in range(length):
        if rng.random() < 1.0 / (READS_PER_WRITE + 1):
            ids = rng.integers(0, DOMAINS, size=WRITE_ROWS)
            times = rng.integers(start, end, size=WRITE_ROWS)
            counts = rng.integers(1, 6, size=WRITE_ROWS)
            ops.append(Op(rows=(ids, times, counts)))
            continue
        kind = int(np.searchsorted(cumulative, rng.random(), side="right"))
        index = int(rng.integers(0, DOMAINS))
        domain = f"nx-{index:05d}.{_TLDS[index % len(_TLDS)]}"
        if kind == 0:
            query = TopDomainsQuery(n=int(5 * (1 + rng.integers(0, 3))))
        elif kind == 1:
            days = int(rng.integers(30, 181))
            lo = int(rng.integers(start, end - days * SECONDS_PER_DAY))
            query = DailySeriesQuery(domain=domain, start=lo, end=lo + days * SECONDS_PER_DAY)
        elif kind == 2:
            pivot = int(rng.integers(start + 30 * SECONDS_PER_DAY, end - 30 * SECONDS_PER_DAY))
            query = TimelineQuery(domain=domain, pivot=pivot)
        else:
            query = ActivityWindowQuery(domain=domain)
        ops.append(Op(request=QueryRequest(query=query)))
    return ops


def make_inputs(seed: int, length: int = SCRIPT_LENGTH) -> ServingInputs:
    return ServingInputs(
        db=build_store(seed),
        scripts=[build_script(seed, client, length) for client in range(CLIENTS)],
    )


@dataclass
class LoopResult:
    elapsed_s: float
    reads: List[float] = field(default_factory=list)
    writes: List[float] = field(default_factory=list)


def closed_loop(inputs: ServingInputs, outcome: Outcome, requests: int, tracer=None) -> LoopResult:
    """Run both clients until each has sent ``requests`` requests."""
    from repro.clock import SimClock
    from repro.serving.server import Disposition, QueryServer

    tracer = tracer if tracer is not None else NullTracer()
    db = inputs.db
    server = QueryServer(db, SimClock())
    #: Store mutation is single-writer by contract.
    write_lock = threading.Lock()
    lock = threading.Lock()
    result = LoopResult(elapsed_s=0.0)
    failures: List[str] = []

    def client(k: int) -> None:
        script = inputs.scripts[k]
        reads: List[float] = []
        writes: List[float] = []
        bad: List[str] = []
        sent = 0
        while sent < requests:
            op = script[sent % len(script)]
            request_id = f"c{k}-{sent}"
            sent += 1
            try:
                if op.rows is not None:
                    with tracer.span("client.write", request=request_id):
                        begin = perf_counter()
                        with write_lock:
                            db.add_batch(*op.rows)
                        writes.append(perf_counter() - begin)
                else:
                    with tracer.span("client.read", request=request_id):
                        begin = perf_counter()
                        records = server.serve_threaded([op.request], threads=1)
                        reads.append(perf_counter() - begin)
                    if records[0].disposition is Disposition.FAILED:
                        bad.append(f"{request_id} {records[0].detail}")
            except Exception as exc:  # a raising request is a failed operation
                bad.append(f"{request_id} raised {type(exc).__name__}: {exc}")
        with lock:
            result.reads.extend(reads)
            result.writes.extend(writes)
            failures.extend(bad)

    threads = [threading.Thread(target=client, args=(k,), name=f"client-{k}") for k in range(CLIENTS)]
    begin = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.elapsed_s = perf_counter() - begin
    outcome.passed(len(result.reads) + len(result.writes) - len(failures))
    for reason in failures:
        outcome.check(False, reason)
    return result


def check_identity(inputs: ServingInputs, outcome: Outcome) -> None:
    """Reads served on the quiescent store equal a direct ``Query.execute``."""
    from repro.clock import SimClock
    from repro.serving.server import QueryServer

    server = QueryServer(inputs.db, SimClock())
    sample = [op.request for op in inputs.scripts[0] if op.request is not None][:IDENTITY_SAMPLE]
    for request in sample:
        served = server.serve_threaded([request], threads=1)[0]
        direct = request.query.execute(inputs.db)
        if isinstance(direct, np.ndarray) or isinstance(served.value, np.ndarray):
            same = bool(np.array_equal(np.asarray(served.value), np.asarray(direct)))
        else:
            same = served.value == direct
        outcome.check(served.answered and same, f"served {request.query.kind} differs from direct execute")

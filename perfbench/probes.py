"""Trace wrappers around the public entry points of each layer.

The benchmark measures ``repro`` from outside: :func:`install` replaces
each entry point with a wrapper that opens a span (or, for calls made
hundreds of thousands of times, times a leaf) and records counts, then
returns an undo callable that puts every original back.  A function
imported by name into other modules (``repro.workloads.trace`` imports
``typosquat_variants``) is replaced at every binding that holds it, so
callers that bound it at import time are traced too.

:data:`LAYER_METRICS` names every per-layer metric the traced run
prints; :func:`layer_metrics` computes them from a finished tracer.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

from perfbench.tracer import Tracer


class _Patcher:
    """Replaces attributes and remembers how to put them back."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def method(self, cls: type, name: str, make: Callable[[Callable], Callable]) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(cls, name, replacement)
        self._undo.append((cls, name, raw))

    def function(self, module: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(module, name)
        replacement = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def undo(self) -> None:
        while self._undo:
            target, name, original = self._undo.pop()
            setattr(target, name, original)


def _spanned(tracer: Tracer, name: str, after=None, adopt=None):
    """Wrapper factory: run the call inside a span, then ``after(args, result)``."""

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = adopt(args) if adopt is not None else None
            with tracer.span(name, adopt=key):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    return make


def _leaf(tracer: Tracer, name: str):
    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.leaf(name, fn, *args, **kwargs)

        return wrapper

    return make


def _counted(tracer: Tracer, name: str):
    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    return make


def install(tracer: Tracer) -> Callable[[], None]:
    """Install every probe; returns the callable that removes them all."""
    from repro.blocklist.store import BlocklistStore
    from repro.core import origin as origin_mod
    from repro.core import scale as scale_mod
    from repro.core.study import NxdomainStudy
    from repro.dga.base import DgaFamily
    from repro.dga.detector import DgaDetector
    from repro.dns.name import DomainName
    from repro.honeypot.filtering import TwoStageFilter
    from repro.passivedns import spill as spill_mod
    from repro.passivedns.database import PassiveDnsDatabase
    from repro.passivedns.pipeline import ResilientIngestPipeline
    from repro.serving import queries as queries_mod
    from repro.serving.server import QueryServer
    from repro.squatting import bit, combo, dot, homo, typo
    from repro.squatting.detector import SquattingDetector
    from repro.whois.history import WhoisHistoryDatabase
    from repro.workloads.trace import NxdomainTraceGenerator

    patch = _Patcher()
    count = tracer.count

    # repro.workloads
    patch.method(NxdomainTraceGenerator, "generate", _spanned(tracer, "workloads.generate"))

    # repro.dga
    patch.method(DgaFamily, "domains_for_day", _spanned(tracer, "dga.domains_for_day"))
    patch.method(DgaDetector, "train_default", _spanned(tracer, "dga.train"))
    patch.method(
        DgaDetector,
        "classify",
        _spanned(tracer, "dga.classify", after=lambda a, r: count("dga.classified_names", len(r))),
    )

    # repro.squatting
    for module, name in (
        (typo, "typosquat_variants"),
        (combo, "combosquat_variants"),
        (dot, "dotsquat_variants"),
        (bit, "bitsquat_variants"),
        (homo, "homosquat_variants"),
    ):
        patch.function(module, name, _spanned(tracer, "squatting.variants"))
    patch.method(SquattingDetector, "classify", _spanned(tracer, "squatting.classify"))

    # repro.dns
    patch.method(DomainName, "__init__", _leaf(tracer, "dns.name"))
    patch.method(DomainName, "from_labels", _leaf(tracer, "dns.name"))
    patch.method(DomainName, "registered_domain", _counted(tracer, "dns.registered_domain_calls"))

    # repro.passivedns: the store
    patch.method(
        PassiveDnsDatabase,
        "add_rows",
        _spanned(tracer, "passivedns.add_rows", after=lambda a, r: count("passivedns.rows_landed", len(a[2]))),
    )
    patch.method(
        PassiveDnsDatabase,
        "add_batch",
        _spanned(tracer, "passivedns.add_batch", after=lambda a, r: count("passivedns.add_batch_rows", len(a[1]))),
    )
    for method, span_name in (
        ("spill_commit", "passivedns.spill_commit"),
        ("spill_compact", "passivedns.compact"),
        ("fingerprint", "passivedns.fingerprint"),
        ("digest", "passivedns.digest"),
        ("monthly_response_series", "passivedns.monthly"),
        ("tld_histogram", "passivedns.tld_histogram"),
        ("lifespan_decay", "passivedns.lifespan"),
        ("aggregate_snapshot", "passivedns.aggregate_snapshot"),
    ):
        patch.method(PassiveDnsDatabase, method, _spanned(tracer, span_name))

    def timed_transaction(fn: Callable) -> Callable:
        @contextmanager
        @functools.wraps(fn)
        def read_transaction(self):
            start = perf_counter()
            with fn(self) as generation:
                tracer.record_leaf("passivedns.read_txn", perf_counter() - start)
                yield generation

        return read_transaction

    patch.method(PassiveDnsDatabase, "read_transaction", timed_transaction)

    # repro.passivedns: spill IO, counted at the durable-write boundary
    def written(nbytes: int) -> None:
        count("passivedns.spill_bytes", nbytes)
        if tracer.active("passivedns.compact"):
            count("passivedns.compact_bytes_rewritten", nbytes)

    def counting_write(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def write_atomic(self, path, data):
            fn(self, path, data)
            written(len(data))

        return write_atomic

    def counting_append(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def append_line(self, path, line):
            fn(self, path, line)
            written(len(line.encode("utf-8")) + 1)

        return append_line

    patch.method(spill_mod._DurableIo, "write_atomic", counting_write)
    patch.method(spill_mod._DurableIo, "append_line", counting_append)

    # repro.passivedns: the ingest pipeline
    def after_finish(args, stats) -> None:
        count("passivedns.pipeline.offered", stats.offered)
        count("passivedns.pipeline.delivered", stats.delivered)
        count("passivedns.pipeline.landed", args[0].database.row_count())

    patch.method(ResilientIngestPipeline, "ingest_many", _spanned(tracer, "passivedns.pipeline.ingest"))
    patch.method(
        ResilientIngestPipeline, "finish", _spanned(tracer, "passivedns.pipeline.ingest", after=after_finish)
    )

    # repro.whois / repro.blocklist
    patch.method(WhoisHistoryDatabase, "join", _spanned(tracer, "whois.join"))
    patch.function(origin_mod, "blocklist_census", _spanned(tracer, "blocklist.census"))
    patch.method(BlocklistStore, "query", _leaf(tracer, "blocklist.lookups"))

    # repro.core
    patch.method(NxdomainStudy, "run_scale_analysis", _spanned(tracer, "core.scale"))
    patch.method(NxdomainStudy, "run_origin_analysis", _spanned(tracer, "core.origin"))
    patch.method(NxdomainStudy, "run_selection", _spanned(tracer, "core.selection"))
    patch.method(NxdomainStudy, "run_security_analysis", _spanned(tracer, "core.security"))
    patch.method(NxdomainStudy, "full_report", _spanned(tracer, "core.full_report"))
    patch.function(scale_mod, "expiry_timeline", _spanned(tracer, "core.expiry_timeline"))

    # repro.honeypot
    def after_filter(args, result) -> None:
        _kept, stats = result
        count("honeypot.requests", stats.input_requests)
        count("honeypot.kept", stats.kept)

    patch.method(TwoStageFilter, "apply", _spanned(tracer, "honeypot.filter", after=after_filter))

    # repro.serving: the tier, and each query kind's execute (which
    # runs on the tier's worker thread and is adopted by the request)
    def traced_serve(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def serve_threaded(self, requests, threads=4):
            with tracer.span("serving.serve") as span:
                keys = [id(request.query) for request in requests]
                for key in keys:
                    tracer.expect_child(key, span)
                try:
                    records = fn(self, requests, threads)
                finally:
                    for key in keys:
                        tracer.forget_child(key)
            count("serving.answered", sum(1 for r in records if r.answered))
            count("serving.cached", sum(1 for r in records if r.cached))
            return records

        return serve_threaded

    patch.method(QueryServer, "serve_threaded", traced_serve)
    for cls in (
        queries_mod.TopDomainsQuery,
        queries_mod.DailySeriesQuery,
        queries_mod.TimelineQuery,
        queries_mod.ActivityWindowQuery,
    ):
        name = "serving.execute." + cls.kind.replace("-", "_")
        patch.method(cls, "execute", _spanned(tracer, name, adopt=lambda a: id(a[0])))

    return patch.undo


#: Every per-layer metric: (name, unit).  Names are prefixed with the
#: ``repro`` module they measure.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("workloads.generate_s", "s"),
    ("dga.domains_for_day_calls", "count"),
    ("dga.domains_for_day_s", "s"),
    ("dga.train_s", "s"),
    ("dga.classified_names", "count"),
    ("dga.classify_s", "s"),
    ("squatting.variants_calls", "count"),
    ("squatting.variants_s", "s"),
    ("squatting.classify_calls", "count"),
    ("squatting.classify_s", "s"),
    ("dns.names_constructed", "count"),
    ("dns.name_s", "s"),
    ("dns.registered_domain_calls", "count"),
    ("passivedns.add_rows_s", "s"),
    ("passivedns.rows_landed", "count"),
    ("passivedns.pipeline.ingest_s", "s"),
    ("passivedns.pipeline.offered", "count"),
    ("passivedns.pipeline.delivered", "count"),
    ("passivedns.pipeline.admit_ratio", "ratio"),
    ("passivedns.add_batch_s", "s"),
    ("passivedns.add_batch_rows", "count"),
    ("passivedns.spill_commit_s", "s"),
    ("passivedns.spill_bytes", "B"),
    ("passivedns.compact_s", "s"),
    ("passivedns.compact_bytes_rewritten", "B"),
    ("passivedns.reopen_s", "s"),
    ("passivedns.segments_crc_streamed", "count"),
    ("passivedns.fingerprint_s", "s"),
    ("passivedns.digest_s", "s"),
    ("passivedns.monthly_s", "s"),
    ("passivedns.tld_histogram_s", "s"),
    ("passivedns.lifespan_s", "s"),
    ("passivedns.aggregate_snapshot_s", "s"),
    ("passivedns.read_txn_wait_s", "s"),
    ("whois.join_s", "s"),
    ("blocklist.census_s", "s"),
    ("blocklist.lookups", "count"),
    ("core.scale_s", "s"),
    ("core.scale_calls", "count"),
    ("core.origin_s", "s"),
    ("core.origin_calls", "count"),
    ("core.selection_s", "s"),
    ("core.security_s", "s"),
    ("core.expiry_timeline_s", "s"),
    ("core.render_s", "s"),
    ("core.shape_checks_failed", "count"),
    ("honeypot.requests", "count"),
    ("honeypot.filter_s", "s"),
    ("honeypot.filter_keep_ratio", "ratio"),
    ("serving.execute.top_domains_calls", "count"),
    ("serving.execute.top_domains_s", "s"),
    ("serving.execute.daily_series_calls", "count"),
    ("serving.execute.daily_series_s", "s"),
    ("serving.execute.timeline_calls", "count"),
    ("serving.execute.timeline_s", "s"),
    ("serving.execute.activity_window_calls", "count"),
    ("serving.execute.activity_window_s", "s"),
    ("serving.cache_hit_ratio", "ratio"),
    ("serving.tier_overhead_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value except ``trace.overhead_s``.

    ``_s`` metrics are inclusive seconds of the outermost spans of that
    name (leaf timers for ``dns.name_s`` and the read-transaction wait);
    ``core.render_s`` and ``serving.tier_overhead_s`` are self times.
    """
    totals = tracer.totals()
    counts = tracer.counts
    spans = tracer.finished()
    own = tracer.self_times()

    def total(name: str) -> float:
        return totals.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0)

    def self_of(name: str) -> float:
        return sum(own[s.sid] for s in spans if s.name == name)

    values: Dict[str, float] = {
        "dns.names_constructed": counts.get("dns.name", 0),
        "dns.name_s": tracer.leaf_seconds.get("dns.name", 0.0),
        "passivedns.read_txn_wait_s": tracer.leaf_seconds.get("passivedns.read_txn", 0.0),
        "passivedns.pipeline.admit_ratio": _ratio(
            counts.get("passivedns.pipeline.landed", 0), counts.get("passivedns.pipeline.offered", 0)
        ),
        "honeypot.filter_keep_ratio": _ratio(counts.get("honeypot.kept", 0), counts.get("honeypot.requests", 0)),
        "serving.cache_hit_ratio": _ratio(counts.get("serving.cached", 0), counts.get("serving.answered", 0)),
        "core.render_s": self_of("core.full_report"),
        "serving.tier_overhead_s": self_of("serving.serve"),
        "trace.spans": len(spans),
    }
    span_names = {
        "workloads.generate_s": "workloads.generate",
        "dga.domains_for_day_s": "dga.domains_for_day",
        "dga.train_s": "dga.train",
        "dga.classify_s": "dga.classify",
        "squatting.variants_s": "squatting.variants",
        "squatting.classify_s": "squatting.classify",
        "passivedns.add_rows_s": "passivedns.add_rows",
        "passivedns.pipeline.ingest_s": "passivedns.pipeline.ingest",
        "passivedns.add_batch_s": "passivedns.add_batch",
        "passivedns.spill_commit_s": "passivedns.spill_commit",
        "passivedns.compact_s": "passivedns.compact",
        "passivedns.reopen_s": "passivedns.reopen",
        "passivedns.fingerprint_s": "passivedns.fingerprint",
        "passivedns.digest_s": "passivedns.digest",
        "passivedns.monthly_s": "passivedns.monthly",
        "passivedns.tld_histogram_s": "passivedns.tld_histogram",
        "passivedns.lifespan_s": "passivedns.lifespan",
        "passivedns.aggregate_snapshot_s": "passivedns.aggregate_snapshot",
        "whois.join_s": "whois.join",
        "blocklist.census_s": "blocklist.census",
        "core.scale_s": "core.scale",
        "core.origin_s": "core.origin",
        "core.selection_s": "core.selection",
        "core.security_s": "core.security",
        "core.expiry_timeline_s": "core.expiry_timeline",
        "honeypot.filter_s": "honeypot.filter",
    }
    for metric, span_name in span_names.items():
        values[metric] = total(span_name)
    for metric, span_name in (
        ("dga.domains_for_day_calls", "dga.domains_for_day"),
        ("squatting.variants_calls", "squatting.variants"),
        ("squatting.classify_calls", "squatting.classify"),
        ("core.scale_calls", "core.scale"),
        ("core.origin_calls", "core.origin"),
    ):
        values[metric] = calls(span_name)
    for kind in ("top_domains", "daily_series", "timeline", "activity_window"):
        name = f"serving.execute.{kind}"
        values[f"{name}_s"] = total(name)
        values[f"{name}_calls"] = calls(name)
    for name in (
        "dga.classified_names",
        "dns.registered_domain_calls",
        "passivedns.rows_landed",
        "passivedns.pipeline.offered",
        "passivedns.pipeline.delivered",
        "passivedns.add_batch_rows",
        "passivedns.spill_bytes",
        "passivedns.compact_bytes_rewritten",
        "passivedns.segments_crc_streamed",
        "blocklist.lookups",
        "honeypot.requests",
        "core.shape_checks_failed",
    ):
        values[name] = counts.get(name, 0)
    return values

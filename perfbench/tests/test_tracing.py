"""The tracer, and that installing the probes leaves results identical."""

import threading

import pytest

from perfbench import probes, serving, study
from perfbench.harness import Outcome
from perfbench.tracer import Tracer


class TestTracer:
    def test_spans_nest_and_share_the_request_id(self):
        tracer = Tracer()
        with tracer.span("outer", request="r1") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent == outer.sid
        assert inner.request == "r1"
        assert outer.parent is None

    def test_child_on_another_thread_is_adopted(self):
        tracer = Tracer()
        key = object()
        done = []

        def run():
            with tracer.span("execute", adopt=key) as span:
                done.append(span)

        with tracer.span("serve", request="r2") as parent:
            tracer.expect_child(key, parent)
            worker = threading.Thread(target=run)
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert done[0].parent == parent.sid
        assert done[0].request == "r2"

    def test_recursive_spans_are_counted_once_in_totals(self):
        tracer = Tracer()
        with tracer.span("f"):
            with tracer.span("f"):
                pass
        row = tracer.totals()["f"]
        outer = max(tracer.spans, key=lambda s: s.duration)
        assert row["calls"] == 2
        assert row["total_s"] == pytest.approx(outer.duration)

    def test_only_the_outermost_leaf_is_credited(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            tracer.leaf("outer", lambda: tracer.leaf("inner", lambda: None))
        assert tracer.counts["outer"] == 1 and tracer.counts["inner"] == 1
        assert parent.leaf == pytest.approx(tracer.leaf_seconds["outer"])


class TestProbes:
    def test_uninstall_restores_every_binding(self):
        from repro.dns.name import DomainName
        from repro.squatting import typo
        from repro.workloads import trace

        before = (DomainName.__dict__["__init__"], DomainName.__dict__["from_labels"],
                  typo.typosquat_variants, trace.typosquat_variants)
        undo = probes.install(Tracer())
        assert trace.typosquat_variants is not before[3]
        assert trace.typosquat_variants is typo.typosquat_variants
        undo()
        after = (DomainName.__dict__["__init__"], DomainName.__dict__["from_labels"],
                 typo.typosquat_variants, trace.typosquat_variants)
        assert after == before

    def test_traced_study_report_equals_untraced(self):
        from repro.core.study import StudyConfig

        config = StudyConfig(trace_domains=600, squat_count=40, honeypot_scale=0.001,
                             expiry_timeline_sample=100, dga_samples_per_family=50)
        outcome = Outcome()
        plain = study.run_once(3, config, outcome=outcome)
        tracer = Tracer()
        undo = probes.install(tracer)
        try:
            traced = study.run_once(3, config, tracer, outcome=outcome)
        finally:
            undo()
        assert traced.report_sha == plain.report_sha
        assert outcome.failed == 0
        values = probes.layer_metrics(tracer)
        assert values["core.scale_calls"] == 2
        assert values["core.origin_calls"] == 2
        assert values["dns.names_constructed"] > 0
        assert values["passivedns.rows_landed"] >= traced.nx_rows
        assert set(name for name, _ in probes.LAYER_METRICS) - {"trace.overhead_s"} <= set(values)

    def test_traced_serving_loop_matches_direct_execute(self, monkeypatch):
        monkeypatch.setattr(serving, "DOMAINS", 300)
        monkeypatch.setattr(serving, "ROWS_PER_DOMAIN", 8)
        outcome = Outcome()
        inputs = serving.make_inputs(5, length=150)
        tracer = Tracer()
        undo = probes.install(tracer)
        try:
            loop = serving.closed_loop(inputs, outcome, requests=150, tracer=tracer)
        finally:
            undo()
        serving.check_identity(inputs, outcome)
        assert outcome.failed == 0
        assert len(loop.reads) + len(loop.writes) == 300
        spans = {span.sid: span for span in tracer.spans}
        executes = [s for s in tracer.spans if s.name.startswith("serving.execute.")]
        assert executes
        assert all(spans[s.parent].name == "serving.serve" for s in executes)
        assert all(s.request == spans[s.parent].request for s in executes)
        values = probes.layer_metrics(tracer)
        assert 0.0 < values["serving.cache_hit_ratio"] < 1.0
        assert values["serving.tier_overhead_s"] > 0.0


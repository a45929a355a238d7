"""The percentile rule, self times and failure accounting."""

import json

import pytest

from perfbench.harness import Outcome, emit
from perfbench.stats import (
    PERCENTILE_LADDER,
    beyond,
    failed_fraction,
    median,
    percentile,
    self_times,
    summarize,
    tail_percentile,
)


class TestPercentileRule:
    def test_p99_needs_a_thousand_samples(self):
        assert beyond(1000, 99.0) == 10
        assert tail_percentile(1000) == 99.0
        assert beyond(999, 99.0) == 9
        assert tail_percentile(999) == 98.0

    def test_highest_qualifying_percentile_is_chosen(self):
        assert tail_percentile(10_000) == 99.9
        assert tail_percentile(40) == 75.0

    def test_too_few_samples_report_no_tail(self):
        assert tail_percentile(19) is None
        summary = summarize([3.0, 1.0, 2.0])
        assert summary == {"n": 3, "p50": 2.0, "tail_pct": None, "tail": None}

    def test_reported_tail_is_the_highest_with_ten_samples_beyond_it(self):
        for count in list(range(1, 1200)) + [2_000, 9_999, 10_000, 12_345]:
            pct = tail_percentile(count)
            higher = [p for p in PERCENTILE_LADDER if pct is None or p > pct]
            values = list(range(count))
            for candidate in higher:
                cut = percentile(values, candidate)
                assert sum(v > cut for v in values) < 10
            if pct is not None:
                cut = percentile(values, pct)
                assert sum(v > cut for v in values) >= 10

    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 99.0) == 99
        assert percentile(values, 50.0) == 50
        assert percentile(values, 100.0) == 100
        assert median([4, 1, 3, 2]) == 2.5


class TestSelfTime:
    def test_nested_children_count_once_for_their_parent(self):
        spans = [
            (1, None, 0.0, 10.0, 0.0),
            (2, 1, 1.0, 3.0, 0.0),
            (3, 2, 1.5, 2.5, 0.0),  # grandchild: only its parent loses it
        ]
        own = self_times(spans)
        assert own[1] == pytest.approx(8.0)
        assert own[2] == pytest.approx(1.0)
        assert own[3] == pytest.approx(1.0)

    def test_adjacent_and_overlapping_children(self):
        spans = [
            (1, None, 0.0, 10.0, 0.0),
            (2, 1, 1.0, 3.0, 0.0),
            (3, 1, 3.0, 5.0, 0.0),  # back to back with span 2
            (4, 1, 6.0, 8.0, 0.0),
            (5, 1, 7.0, 9.0, 0.0),  # overlaps span 4 (another thread)
        ]
        assert self_times(spans)[1] == pytest.approx(10.0 - 4.0 - 3.0)

    def test_children_are_clipped_and_leaf_time_subtracted(self):
        spans = [
            (1, None, 0.0, 4.0, 0.5),
            (2, 1, 3.0, 6.0, 0.0),  # outlives its parent
        ]
        own = self_times(spans)
        assert own[1] == pytest.approx(4.0 - 1.0 - 0.5)
        assert own[2] == pytest.approx(3.0)


class TestFailureAccounting:
    def test_failed_fraction(self):
        assert failed_fraction(200, 0) == 0.0
        assert failed_fraction(200, 5) == 0.025
        with pytest.raises(ValueError):
            failed_fraction(0, 0)
        with pytest.raises(ValueError):
            failed_fraction(3, 4)

    def test_outcome_counts_checks_and_passes(self):
        outcome = Outcome()
        outcome.passed(8)
        assert outcome.check(True, "fine")
        assert not outcome.check(False, "broken")
        assert (outcome.attempted, outcome.failed) == (10, 1)
        assert outcome.failures == ["broken"]

    def test_result_line(self, capsys):
        outcome = Outcome()
        outcome.passed(3)
        outcome.check(False, "mismatch")
        emit(outcome, {"job_s": (1.5, "s")}, ["a line"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "a line"
        assert "failed_frac: 0.250000" in lines[1]
        result = json.loads(lines[-1])
        assert result == {
            "correct": False,
            "attempted": 4,
            "failed": 1,
            "metrics": {"job_s": {"value": 1.5, "unit": "s"}},
        }

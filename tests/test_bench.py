"""Unit tests for instrumentation and the bench harness."""

import pytest

from repro.bench.harness import ratio, run_measured, sweep
from repro.bench.reporting import format_series, format_table
from repro.instrumentation import CostRecorder, active_recorder, charge, recording


class TestCostRecorder:
    def test_charges_only_when_active(self):
        recorder = CostRecorder()
        charge("tuples_scanned")  # no active recorder: dropped
        assert recorder.get("tuples_scanned") == 0
        with recording(recorder):
            charge("tuples_scanned")
            charge("tuples_scanned", 4)
        charge("tuples_scanned")  # inactive again
        assert recorder.get("tuples_scanned") == 5

    def test_nesting_restores_previous(self):
        outer, inner = CostRecorder(), CostRecorder()
        with recording(outer):
            charge("join_probes")
            with recording(inner):
                charge("join_probes")
            charge("join_probes")
        assert outer.get("join_probes") == 2
        assert inner.get("join_probes") == 1
        assert active_recorder() is None

    def test_restored_on_exception(self):
        recorder = CostRecorder()
        with pytest.raises(RuntimeError):
            with recording(recorder):
                raise RuntimeError
        assert active_recorder() is None

    def test_reset_and_snapshot(self):
        recorder = CostRecorder()
        recorder.incr("join_probes", 3)
        snap = recorder.snapshot()
        recorder.reset()
        assert snap == {"join_probes": 3}
        assert recorder.get("join_probes") == 0


class TestHarness:
    def test_run_measured_captures_counters_and_result(self):
        def work():
            charge("tuples_emitted", 7)
            return "done"

        m = run_measured("label", work)
        assert m.result == "done"
        assert m.counter("tuples_emitted") == 7
        assert m.counter("missing") == 0
        assert m.seconds >= 0

    def test_sweep_excludes_setup_cost(self):
        setup_calls = []

        def make_work(value):
            setup_calls.append(value)

            def work():
                charge("tuples_emitted", value)
                return value

            return work

        out = sweep([1, 2, 3], make_work, label="n={value}")
        assert [m.result for m in out] == [1, 2, 3]
        assert [m.label for m in out] == ["n=1", "n=2", "n=3"]
        assert setup_calls == [1, 2, 3]

    def test_ratio_guards(self):
        assert ratio(10, 2) == 5
        assert ratio(10, 0) == float("inf")
        assert ratio(0, 0) == 1.0


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["x", "longer"], [[1, 2.5], [100, 3.25]], title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "longer" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text

    def test_float_formatting(self):
        text = format_table(["v"], [[1234.5678], [0.1234], [float("inf")]])
        assert "1234.6" in text
        assert "0.123" in text
        assert "inf" in text

    def test_format_series(self):
        text = format_series("x", "y", [(1, 2), (3, 4)], title="s")
        assert text.splitlines()[0] == "s"
        assert "3" in text

"""Table rendering and timing helpers."""

import time

import pytest

from repro.utils import Stopwatch, render_table, time_callable


class TestRenderTable:
    def test_basic_layout(self):
        text = render_table(["A", "B"], [["1", "22"], ["333", "4"]])
        lines = text.splitlines()
        assert lines[0].startswith("A")
        assert set(lines[1]) == {"-"}
        assert len(lines) == 4

    def test_column_widths_adapt(self):
        text = render_table(["X"], [["very-long-cell"]])
        assert "very-long-cell" in text

    def test_non_string_cells(self):
        text = render_table(["n"], [[42], [3.5]])
        assert "42" in text and "3.5" in text

    def test_rejects_empty_headers(self):
        with pytest.raises(ValueError):
            render_table([], [])

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["A", "B"], [["only-one"]])


class TestTiming:
    def test_stopwatch_measures(self):
        with Stopwatch() as sw:
            time.sleep(0.01)
        assert 0.005 < sw.elapsed < 0.5

    def test_time_callable_average(self):
        calls = []
        t = time_callable(lambda: calls.append(1), repeats=3)
        assert len(calls) == 3
        assert t >= 0.0

    def test_time_callable_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeats=0)


class TestMCCounters:
    def _counters(self):
        from repro.utils.timing import MCCounters

        return MCCounters()

    def test_snapshot_namespaces_backend_keys(self):
        """Backend names live under sub-dicts, so arbitrary backend
        labels can never collide with the fixed top-level keys."""
        counters = self._counters()
        counters.record_forward(0.5, 4, backend="forward_seconds")  # worst case
        counters.record_scan(0.25, "draws")
        snap = counters.snapshot()
        assert snap["forward_seconds"] == 0.5  # fixed key untouched
        assert snap["draws"] == 4.0
        assert snap["by_backend"] == {"forward_seconds": 0.5}
        assert snap["scan"] == {"draws": {"seconds": 0.25, "calls": 1.0}}

    def test_scan_timings_accumulate_per_backend(self):
        counters = self._counters()
        counters.record_scan(0.1, "fused")
        counters.record_scan(0.2, "fused")
        counters.record_scan(0.4, "unfused")
        scan = counters.snapshot()["scan"]
        assert scan["fused"]["calls"] == 2.0
        assert abs(scan["fused"]["seconds"] - 0.3) < 1e-12
        assert scan["unfused"]["calls"] == 1.0

    def test_reset_clears_namespaced_dicts(self):
        counters = self._counters()
        counters.record_forward(1.0, 2, backend="batched")
        counters.record_scan(1.0, "fused")
        counters.reset()
        snap = counters.snapshot()
        assert snap["by_backend"] == {} and snap["scan"] == {}
        assert snap["draws"] == 0.0

    def test_snapshot_is_json_serialisable(self):
        import json

        counters = self._counters()
        counters.record_forward(0.1, 2, backend="batched")
        counters.record_backward(0.05)
        counters.record_scan(0.01, "fused")
        json.dumps(counters.snapshot())

    def test_draws_per_second(self):
        counters = self._counters()
        assert counters.draws_per_second() == 0.0
        counters.record_forward(2.0, 10)
        assert counters.draws_per_second() == 5.0

"""Tests for the bench perf-history trend renderer (repro.perf_history)."""

from __future__ import annotations

import json

from repro.cli import main as cli_main
from repro.perf_history import (
    group_series,
    load_history,
    render_trends,
    sparkline,
)


def _write_history(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


RECORDS = [
    {"bench": "bench_a", "mode": "quick", "metric": "seconds", "value": 2.0,
     "git_sha": "aaaa111122223333"},
    {"bench": "bench_a", "mode": "quick", "metric": "seconds", "value": 1.0,
     "git_sha": "bbbb111122223333"},
    {"bench": "bench_a", "mode": "quick", "metric": "seconds", "value": 1.5,
     "git_sha": "cccc111122223333"},
    {"bench": "bench_b", "mode": "full", "metric": "seconds", "value": 9.0,
     "git_sha": None},
]


class TestLoadHistory:
    def test_skips_blank_and_malformed_lines(self, tmp_path, capsys):
        path = tmp_path / "history.jsonl"
        path.write_text(
            json.dumps(RECORDS[0]) + "\n"
            "\n"
            "{not json}\n"
            '{"other": "shape"}\n'
            + json.dumps(RECORDS[1]) + "\n",
            encoding="utf-8",
        )
        records = load_history(str(path))
        assert [r["value"] for r in records] == [2.0, 1.0]
        assert "malformed" in capsys.readouterr().err

    def test_round_trips_harness_records(self, tmp_path):
        path = tmp_path / "history.jsonl"
        _write_history(path, RECORDS)
        assert len(load_history(str(path))) == len(RECORDS)


class TestGroupSeries:
    def test_groups_by_bench_mode_metric(self):
        series = group_series(RECORDS)
        assert set(series) == {
            ("bench_a", "quick", "seconds"), ("bench_b", "full", "seconds")
        }
        assert [r["value"] for r in series[("bench_a", "quick", "seconds")]] == [
            2.0, 1.0, 1.5
        ]

    def test_defaults_for_missing_mode_and_metric(self):
        series = group_series([{"bench": "x", "value": 1.0}])
        assert set(series) == {("x", "full", "seconds")}


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_series_uses_lowest_glyph(self):
        assert sparkline([3.0, 3.0, 3.0]) == "▁▁▁"

    def test_monotone_series_rises(self):
        line = sparkline([1.0, 2.0, 3.0, 4.0])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"
        assert list(line) == sorted(line)


class TestRenderTrends:
    def test_table_contains_series_and_ratio(self):
        text = render_trends(RECORDS)
        assert "bench_a" in text and "bench_b" in text
        # latest 1.5 vs best 1.0
        assert "1.50x" in text
        # short sha of the latest bench_a record
        assert "cccc111122" in text

    def test_bench_substring_filter(self):
        text = render_trends(RECORDS, bench="_a")
        assert "bench_a" in text and "bench_b" not in text

    def test_mode_filter(self):
        text = render_trends(RECORDS, mode="full")
        assert "bench_b" in text and "bench_a" not in text

    def test_no_matches_message(self):
        assert render_trends(RECORDS, bench="nope") == "no matching perf records"
        assert render_trends([]) == "no matching perf records"

    def test_last_bounds_sparkline_not_best(self):
        records = [
            {"bench": "x", "mode": "full", "metric": "seconds", "value": v}
            for v in [0.5, 10.0, 10.0, 10.0]
        ]
        text = render_trends(records, last=2)
        # The sparkline shows 2 values, but vs_best still sees the 0.5 run.
        assert "20.00x" in text

    def test_integral_values_keep_every_digit(self):
        records = [
            {"bench": "src_repro_lines", "mode": "quick", "metric": "lines",
             "value": v}
            for v in [19681, 19103]
        ]
        text = render_trends(records)
        assert "19103" in text and "e+04" not in text

    def test_non_numeric_series_is_dropped(self):
        records = RECORDS + [
            {"bench": "bad", "mode": "full", "metric": "seconds", "value": "n/a"}
        ]
        text = render_trends(records)
        assert "bad" not in text


class TestMain:
    """``repro bench-history``: the one CLI over the renderer."""

    def test_renders_file(self, tmp_path, capsys):
        path = tmp_path / "history.jsonl"
        _write_history(path, RECORDS)
        assert cli_main(["bench-history", str(path)]) == 0
        out = capsys.readouterr().out
        assert "bench_a" in out and "bench_b" in out
        assert "1.50x" in out  # bench_a: latest 1.5 vs best 1.0

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert cli_main(["bench-history", str(tmp_path / "absent.jsonl")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_filters_forwarded(self, tmp_path, capsys):
        path = tmp_path / "history.jsonl"
        _write_history(path, RECORDS)
        assert cli_main(
            ["bench-history", str(path), "--bench", "_b", "--mode", "full"]
        ) == 0
        out = capsys.readouterr().out
        assert "bench_b" in out and "bench_a" not in out


def test_harness_provenance_fields():
    """The bench harness stamps commit, python, numpy and cpu count."""
    import importlib.util
    import os

    spec = importlib.util.spec_from_file_location(
        "bench_harness",
        os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "harness.py"),
    )
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    stamp = harness.provenance()
    assert set(stamp) == {"git_sha", "python", "numpy", "cpu_count"}
    assert stamp["python"].count(".") == 2
    assert stamp["numpy"] is not None
    assert stamp["cpu_count"] >= 1
